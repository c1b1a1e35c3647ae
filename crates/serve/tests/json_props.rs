//! Property tests for the hand-rolled JSON module: every document the
//! encoder can produce parses back to the identical value — across
//! escaping, nesting, and number edge cases — and re-encoding the
//! parse is byte-identical (the encoder is deterministic, which the
//! artifact-store keys and the CI output diffs rely on). The tree-free
//! writer and reader agree with the tree byte for byte.

use std::borrow::Cow;

use hirata_serve::json::{Field, Json, ObjectWriter};
use proptest::prelude::*;

/// Characters chosen to stress the string escaper: quotes,
/// backslashes, the whole escape shorthand set, raw control
/// characters, multi-byte UTF-8, and astral-plane characters that
/// need surrogate pairs in `\u` form.
const TRICKY_CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}', '\u{1f}', 'é',
    '€', '中', '\u{ffff}', '😀', '𝄞',
];

/// Strings of up to a few KiB: single tricky characters mixed with long
/// plain runs of ASCII and of 2-, 3- and 4-byte UTF-8, so escapes land
/// at the start, middle and end of the runs the decoder copies whole.
fn arb_string() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        4 => proptest::sample::select(TRICKY_CHARS.to_vec()).prop_map(String::from),
        1 => "[a-zA-Z0-9 ]{0,600}",
        1 => "[α-ω]{0,200}",
        1 => "[ぁ-ゖ]{0,150}",
        1 => "[😀-😏]{0,100}",
    ];
    proptest::collection::vec(piece, 0..16).prop_map(|pieces| pieces.concat())
}

/// Finite floats, weighted toward the edge cases that break naive
/// encoders: negative zero, subnormals, extreme magnitudes, and
/// values that need all 17 digits to round-trip.
fn arb_f64() -> BoxedStrategy<f64> {
    prop_oneof![
        proptest::sample::select(vec![
            0.0f64,
            -0.0,
            1.0,
            -1.5,
            0.1,
            1e-308,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1.7976931348623155e308,
            5e-324,
            std::f64::consts::PI,
        ]),
        // Uniform random bit patterns: every finite float shape,
        // including subnormals; the rare non-finite patterns fall
        // back to a small rational.
        (0u64..u64::MAX).prop_map(|bits| {
            let f = f64::from_bits(bits);
            if f.is_finite() {
                f
            } else {
                (bits % 4096) as f64 / 8.0
            }
        }),
    ]
    .boxed()
}

/// Integers covering the i64 extremes, u64-range values (which the
/// module promotes to floats), and small counters.
fn arb_int() -> BoxedStrategy<Json> {
    prop_oneof![
        proptest::sample::select(vec![
            Json::Int(0),
            Json::Int(-1),
            Json::Int(i64::MAX),
            Json::Int(i64::MIN),
            Json::u64(u64::MAX),
            Json::u64(i64::MAX as u64 + 1),
        ]),
        (-1_000_000i64..1_000_000).prop_map(Json::Int),
    ]
    .boxed()
}

/// The string encoder, one character at a time: the reference the
/// run-copying encoder must match byte for byte.
fn reference_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn arb_json() -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        (0u8..2).prop_map(|b| Json::Bool(b == 1)),
        arb_int(),
        arb_f64().prop_map(Json::Num),
        arb_string().prop_map(Json::Str),
    ]
    .boxed();
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
            (proptest::collection::vec(arb_string(), 0..4), proptest::collection::vec(inner, 0..4))
                .prop_map(|(keys, values)| { Json::Obj(keys.into_iter().zip(values).collect()) }),
        ]
        .boxed()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → parse is the identity on every value the encoder can
    /// produce. (`Num` comparison is exact: the encoder writes enough
    /// digits that parsing returns the same bits.)
    #[test]
    fn encode_parse_round_trips(doc in arb_json()) {
        let text = doc.render();
        let back = Json::parse(&text).unwrap_or_else(|e| panic!("`{text}` failed: {e}"));
        prop_assert_eq!(&back, &doc, "compact round trip of `{}`", text);

        let pretty = doc.render_pretty();
        let back = Json::parse(&pretty).unwrap_or_else(|e| panic!("pretty `{pretty}`: {e}"));
        prop_assert_eq!(&back, &doc, "pretty round trip of `{}`", pretty);
    }

    /// parse → encode → parse is stable: the encoder is a canonical
    /// form, so one round trip reaches a fixed point.
    #[test]
    fn encoding_is_a_fixed_point(doc in arb_json()) {
        let once = Json::parse(&doc.render()).expect("first parse").render();
        let twice = Json::parse(&once).expect("second parse").render();
        prop_assert_eq!(once, twice);
    }

    /// Strings survive independently of context: as bare documents,
    /// as object keys, and nested in arrays.
    #[test]
    fn strings_round_trip_everywhere(s in arb_string()) {
        let bare = Json::Str(s.clone());
        prop_assert_eq!(Json::parse(&bare.render()).expect("bare"), bare);

        let keyed = Json::Obj(vec![(s.clone(), Json::Arr(vec![Json::Str(s.clone())]))]);
        let back = Json::parse(&keyed.render()).expect("keyed");
        prop_assert_eq!(back.get(&s).and_then(Json::as_arr).and_then(|a| a[0].as_str()), Some(s.as_str()));
    }

    /// The encoder copies runs between escapes, yet writes exactly what
    /// escaping one character at a time writes, as a bare string and as
    /// an object key.
    #[test]
    fn strings_encode_like_the_per_character_reference(s in arb_string()) {
        let want = reference_string(&s);
        prop_assert_eq!(Json::Str(s.clone()).render(), want.clone());
        let keyed = Json::Obj(vec![(s.clone(), Json::Null)]).render();
        prop_assert_eq!(keyed, format!("{{{want}:null}}"));
    }

    /// Integer round trips are exact for the full i64 range — the
    /// simulator's u64 cycle counters must not lose precision on the
    /// wire below 2^63.
    #[test]
    fn integers_are_exact(n in (i64::MIN..i64::MAX)) {
        for n in [n, i64::MIN, i64::MAX, 0, -1] {
            let doc = Json::Int(n);
            prop_assert_eq!(Json::parse(&doc.render()).expect("parses").as_i64(), Some(n));
        }
    }

    /// An object written field by field has the bytes of the tree of
    /// the same fields, counters past `i64::MAX` included.
    #[test]
    fn the_object_writer_writes_what_the_tree_renders(
        keys in proptest::collection::vec(arb_string(), 0..6),
        texts in proptest::collection::vec(arb_string(), 6..7),
        counts in proptest::collection::vec(
            prop_oneof![3 => 0u64..1000, 2 => 0u64..u64::MAX, 1 => Just(u64::MAX)], 6..7),
    ) {
        let mut written = String::from("[");
        let mut object = ObjectWriter::new(&mut written);
        let mut fields = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let value = match i % 4 {
                0 => { object.str(key, &texts[i]); Json::Str(texts[i].clone()) }
                1 => { object.u64(key, counts[i]); Json::u64(counts[i]) }
                2 => { object.bool(key, counts[i] % 2 == 0); Json::Bool(counts[i] % 2 == 0) }
                _ => {
                    object.u64s(key, counts[..i].iter().copied());
                    Json::Arr(counts[..i].iter().map(|&n| Json::u64(n)).collect())
                }
            };
            fields.push((key.clone(), value));
        }
        object.finish();
        prop_assert_eq!(written, format!("[{}", Json::Obj(fields).render()));
    }

    /// Reading an object field by field hands over what the tree holds,
    /// in order, each string as it was written, and borrows every string
    /// value that holds no escape.
    #[test]
    fn fields_read_as_the_tree_holds_them(
        keys in proptest::collection::vec(arb_string(), 0..4),
        values in proptest::collection::vec(arb_json(), 4..5),
    ) {
        let doc = Json::Obj(keys.into_iter().zip(values).collect());
        let text = doc.render_pretty();
        let mut fields = Vec::new();
        Json::parse_fields(&text, |key, value| fields.push((key, value))).expect("reads");
        let Json::Obj(want) = &doc else { unreachable!() };
        prop_assert_eq!(fields.len(), want.len());
        for ((key, value), (want_key, want_value)) in fields.iter().zip(want) {
            prop_assert_eq!(key, want_key);
            let borrowed = |s: &Cow<str>, plain: &str| {
                matches!(s, Cow::Borrowed(_)) == !Json::Str(plain.into()).render().contains('\\')
            };
            prop_assert!(borrowed(key, want_key), "{key:?}");
            match value {
                Field::Str(s) => {
                    let value = s.unescape();
                    prop_assert_eq!(Some(&*value), want_value.as_str());
                    prop_assert!(borrowed(&value, &value), "{s:?}");
                    // The text as written is the string's own rendering,
                    // less its quotes.
                    let rendered = Json::Str(value.to_string()).render();
                    prop_assert_eq!(s.text(), &rendered[1..rendered.len() - 1]);
                }
                Field::Value(v) => prop_assert_eq!(v, want_value),
            }
        }
    }
}
